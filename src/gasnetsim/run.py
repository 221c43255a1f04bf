"""Scenario assembly and the recording run loops used by the CLI and the
experiment scripts."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .diagnostics import (LyapunovSeries, RegularityTracker, SnapshotFrame, nodal_energy_residual,
                          quadrature, snapshot_file_name)
from .errors import DomainError, NumericalError, ValidationError
from .fileio import BAR, ScenarioSpec, make_boundary_control
from .network import NetworkGraph, NodeId, PipeId
from .observer import CoupledState, ObserverConfig, step_coupled
from .solver import Layout, SimState, build_grids, step_system


@dataclass
class Assembled:
    """A scenario resolved against a concrete network."""

    graph: NetworkGraph  # with the scenario friction coefficient applied
    dt: float
    n_steps: int
    mu: Dict[NodeId, float]
    config: ObserverConfig
    s_state: SimState  # packed on `layout`
    r_state: SimState  # packed on `layout`
    layout: Layout  # of both states, with one finite L0 weight per pipe


def default_dt(graph: NetworkGraph, c: float) -> float:
    """Time step giving the shortest pipe at least 8 cells."""
    return min(p.length for p in graph.pipes) / (8 * c)


def assemble(graph: NetworkGraph, scenario: ScenarioSpec) -> Assembled:
    """Resolve gains, controls, grids and initial states for one scenario."""
    law = scenario.law
    eff_graph = graph.with_theta(scenario.theta)
    dt = scenario.dt if scenario.dt is not None else default_dt(eff_graph, law.sound_speed())
    if not dt > 0:  # the default underflows to 0 on a pipe a few subnormal metres long
        raise ValidationError(f"dt = {dt!r} s is not a positive time step (the default is "
                              "the shortest pipe's length / (8 c))")
    horizon = f"t_end = {scenario.t_end!r} s at dt = {dt!r} s is"
    try:
        n_steps = int(math.ceil(scenario.t_end / dt - 1e-12))
    except OverflowError:
        raise ValidationError(f"{horizon} more steps than a float can count") from None
    try:  # the recording loops keep a value per step; no run is longer
        np.empty(n_steps + 1)
    except (ValueError, MemoryError):
        raise ValidationError(f"{horizon} {n_steps:.6g} steps, too many to record a value "
                              "per step") from None
    mu = scenario.resolve_mu(eff_graph)
    stray = set(scenario.boundary) - set(eff_graph.boundary_nodes)
    if stray:
        raise ValidationError(f"boundary schedule for node(s) that are not degree-1 nodes: "
                              f"{sorted(stray)}")
    if scenario.boundary_default is not None and "default" in eff_graph.boundary_nodes:
        raise ValidationError("boundary node 'default' cannot have its own schedule: "
                              "'boundary default' records set every unscheduled node")
    controls = {
        v: make_boundary_control(scenario.schedule_for(v), eff_graph.incident_pipes(v)[0], law)
        for v in eff_graph.boundary_nodes
    }
    config = ObserverConfig(mu=mu, controls=controls)
    s_state = _initial_state(eff_graph, scenario, dt, "S")
    r_state = _initial_state(eff_graph, scenario, dt, "R")
    layout = Layout.of(s_state.grids, eff_graph)
    for p, w in zip(eff_graph.pipes, layout.weights):
        if not math.isfinite(w):
            raise ValidationError(f"pipe {p.id!r}: diameter {p.diameter!r} m gives an L0 "
                                  f"weight of {w!r}")
    return Assembled(eff_graph, dt, n_steps, mu, config, layout.packed_state(s_state),
                     layout.packed_state(r_state), layout)


def _initial_state(graph: NetworkGraph, scenario: ScenarioSpec, dt: float, which: str) -> SimState:
    law = scenario.law
    grids = build_grids(graph, law.sound_speed(), dt, mode=scenario.mode)
    table = scenario.ic_s if which == "S" else scenario.ic_r
    unknown = set(table) - set(grids)
    if unknown:
        raise ValidationError(f"initial condition for unknown pipe(s): {sorted(unknown)}")
    for pid, g in grids.items():
        ic = scenario.ic_for(which, pid)
        record = f"ic {which} {ic.kind}" if pid in table else "rest_pressure"
        where = f"pipe {pid!r}: {record} (p_base {ic.p_base!r} bar, h {ic.h!r} bar, f {ic.f:.6g})"
        p = np.asarray(ic.pressure_bar(g.cell_centers(), g.length)) * BAR
        if not np.isfinite(p).all():  # p_base + h, f pi x or the factor to Pa overflowed
            raise ValidationError(f"{where} is not finite in Pa")
        try:
            rt = np.asarray(law.rtilde(law.density_from_pressure(p)), dtype=float)
        except DomainError as exc:
            raise DomainError(f"{where}: {exc}") from None
        g.r_plus[:] = rt  # zero initial velocity: R+ = R- = Rt(rho)
        g.r_minus[:] = rt
    return SimState(grids=grids, dt=dt, step_index=0)


@dataclass
class RunResult:
    """Everything recorded during one coupled run."""

    series: LyapunovSeries
    residuals: List[Tuple[float, NodeId, float]]
    m_tilde: float
    b_tilde: float
    snapshots: List[SnapshotFrame]
    graph: NetworkGraph


def _snapshot_steps(times: Sequence[float], dt: float, n: int) -> List[int]:
    """The steps nearest to `times`, each time first clamped to [0, n dt];
    two steps whose frames would be written to one file are rejected."""
    first: Dict[int, float] = {}
    for t in times:
        first.setdefault(round(min(max(t, 0.0), n * dt) / dt), float(t))
    steps = sorted(first)
    for k0, k1 in zip(steps, steps[1:]):  # file names never fall as the step rises
        if snapshot_file_name(k0 * dt) == snapshot_file_name(k1 * dt):
            raise ValidationError(f"snapshot times {first[k0]!r} and {first[k1]!r} would "
                                  f"both be written to {snapshot_file_name(k1 * dt)}")
    return steps


def _bad_pipe(layout: Layout, plus: np.ndarray, minus: np.ndarray) -> Optional[PipeId]:
    """The pipe of the first cell where `plus` or `minus` is not finite, None
    if every cell is finite."""
    bad = np.flatnonzero(~(np.isfinite(plus) & np.isfinite(minus)))
    if not bad.size:
        return None
    # the pipe after every span ending before the first bad cell
    return layout.pipes[sum(cells.stop <= bad[0] for cells in layout.spans)]


def _blow_up(state: SimState, asm: Assembled) -> NumericalError:
    """The error for a truth run found not finite at a checked step, with
    `state` a state at or before that step: it is stepped on, each checked,
    to the first step with a cell that is not finite, and the error names
    that step and the cell's pipe.  Every node map multiplies its inputs, so
    a non-finite value never leaves the state again."""
    while np.isfinite(state.packed).all():
        state = step_system(state, asm.graph, asm.config.controls, asm.mu)
    return NumericalError(f"simulation blew up: pipe {_bad_pipe(asm.layout, *state.packed)} "
                          f"is not finite at t={state.t}")


def _l0_failure(cs: CoupledState, delta: Sequence[Tuple[np.ndarray, np.ndarray]],
                layout: Layout) -> NumericalError:
    """The error for an L0 that is not finite: the system and pipe of the first
    cell that is not, truth first, else the pipe at whose term L0's running
    sum over the per-pipe `delta` views stopped being finite."""
    for name, state in (("truth", cs.s_state), ("observer", cs.r_state)):
        pid = _bad_pipe(layout, *state.packed)
        if pid is not None:
            return NumericalError(f"simulation blew up: pipe {pid} of the {name} system is "
                                  f"not finite at t={cs.t}")
    i = next(i for i in range(len(delta))
             if not math.isfinite(quadrature(delta[:i + 1], layout.weights[:i + 1])))
    return NumericalError(f"L0 overflowed at t={cs.t} in the term of pipe {layout.pipes[i]}, "
                          "with every cell of both systems finite")


def run_observer_pair(
    graph: NetworkGraph,
    scenario: ScenarioSpec,
    record_l1: bool = True,
    residual_stride: int = 0,
    snapshot_times: Sequence[float] = (),
) -> RunResult:
    """Advance the coupled truth/observer pair over the scenario horizon.

    Records the Lyapunov series every step, the per-node residual of the
    nodal energy identity every `residual_stride` steps (0 disables), the
    running regularity bounds and snapshot frames at the requested times
    (snapped to the nearest step).
    """
    asm = assemble(graph, scenario)
    cs = CoupledState(asm.s_state, asm.r_state, asm.config)
    # each step writes into `spare`, made once, and swaps it with `cs`, so a
    # state is overwritten two steps on: nothing below keeps one
    spare = CoupledState(cs.s_state.empty_like(), cs.r_state.empty_like(), cs.config)
    n = asm.n_steps
    snap_steps = _snapshot_steps(snapshot_times, asm.dt, n)
    times = np.empty(n + 1)
    l0 = np.empty(n + 1)
    l1 = np.empty(n) if record_l1 else None
    residuals: List[Tuple[float, NodeId, float]] = []
    snapshots: List[SnapshotFrame] = []
    net, dt, layout = asm.graph, asm.dt, asm.layout
    tracker = RegularityTracker(dt)
    # delta = R - S of this step and the last, and L1's quotient, each in a
    # pair made once with its per-pipe views; the two deltas swap every step.
    delta, prev, (q, q_views) = [(pair, layout.views(pair)) for pair in
                                 (np.empty_like(asm.s_state.packed) for _ in range(3))]
    for k in range(n + 1):
        if k > 0:
            collect = residual_stride > 0 and (k - 1) % residual_stride == 0
            nxt, traces = step_coupled(cs, net, collect_nodal=collect, out=spare)
            cs, spare = nxt, cs
            t = (k - 1) * dt  # once per step, for every row of the step
            for v, tr in (traces or {}).items():
                res = nodal_energy_residual(tr.delta_in, tr.delta_out, tr.mu, net.diameters_at(v))
                residuals.append((t, v, res))
        s, r, (d, d_views) = cs.s_state.packed, cs.r_state.packed, delta
        np.subtract(r, s, d)
        times[k] = cs.t
        l0[k] = quadrature(d_views, layout.weights)
        if not math.isfinite(l0[k]):
            raise _l0_failure(cs, d_views, layout)
        if l1 is not None and k > 0:
            np.subtract(d, prev[0], q)
            np.divide(q, dt, q)
            l1[k - 1] = quadrature(q_views, layout.weights)
        tracker.observe(s[0] - s[1], r[0] - r[1])
        if k in snap_steps:
            snapshots.append(SnapshotFrame(cs.t, layout, *d.copy()))  # d is written again
        delta, prev = prev, delta

    return RunResult(LyapunovSeries(times=times, l0=l0, l1=l1), residuals, tracker.m_tilde,
                     tracker.b_tilde, snapshots, asm.graph)


def run_truth(
    graph: NetworkGraph,
    scenario: ScenarioSpec,
    snapshot_times: Sequence[float] = (),
) -> Tuple[SnapshotFrame, List[SnapshotFrame]]:
    """Advance the truth system alone; returns the final frame and the snapshots."""
    asm = assemble(graph, scenario)
    # Each step writes into `spare`, made once, and swaps it with `state`, a
    # copy that leaves `asm.s_state` for `_blow_up` to replay from.
    # Finiteness is checked at the snapshots and at the end only.
    state = asm.layout.packed_state(asm.s_state)
    spare = state.empty_like()
    snap_steps = _snapshot_steps(snapshot_times, asm.dt, asm.n_steps)
    snapshots: List[SnapshotFrame] = []
    for k in range(asm.n_steps + 1):
        if k > 0:
            nxt = step_system(state, asm.graph, asm.config.controls, asm.mu, out=spare)
            state, spare = nxt, state
        if k in snap_steps or k == asm.n_steps:
            frame = SnapshotFrame.from_state(state, asm.layout)
            if _bad_pipe(asm.layout, frame.plus, frame.minus) is not None:
                raise _blow_up(asm.s_state, asm)
            if k in snap_steps:
                snapshots.append(frame)
    return frame, snapshots
