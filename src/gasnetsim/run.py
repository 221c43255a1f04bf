"""Scenario assembly and the recording run loops used by the CLI and the
experiment scripts."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .diagnostics import (LyapunovSeries, RegularityTracker, SnapshotFrame, nodal_energy_residual,
                          quadrature, snapshot_file_name)
from .errors import NumericalError, ValidationError
from .fileio import BAR, ScenarioSpec, make_boundary_control
from .network import NetworkGraph, NodeId
from .observer import CoupledState, ObserverConfig, SimState, step_coupled, step_system
from .solver import Layout, build_grids


@dataclass
class Assembled:
    """A scenario resolved against a concrete network."""

    graph: NetworkGraph  # with the scenario friction coefficient applied
    dt: float
    n_steps: int
    mu: Dict[NodeId, float]
    config: ObserverConfig
    s_state: SimState
    r_state: SimState
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
    return Assembled(eff_graph, dt, n_steps, mu, config, s_state, r_state, layout)


def _initial_state(graph: NetworkGraph, scenario: ScenarioSpec, dt: float, which: str) -> SimState:
    law = scenario.law
    grids = build_grids(graph, law.sound_speed(), dt, mode=scenario.mode)
    table = scenario.ic_s if which == "S" else scenario.ic_r
    unknown = set(table) - set(grids)
    if unknown:
        raise ValidationError(f"initial condition for unknown pipe(s): {sorted(unknown)}")
    for pid, g in grids.items():
        ic = scenario.ic_for(which, pid)
        p = np.asarray(ic.pressure_bar(g.cell_centers(), g.length)) * BAR
        if not np.isfinite(p).all():  # p_base + h, f pi x or the factor to Pa overflowed
            record = f"ic {which} {ic.kind}" if pid in table else "rest_pressure"
            raise ValidationError(f"pipe {pid!r}: {record} (p_base {ic.p_base!r} bar, h {ic.h!r} "
                                  f"bar, f {ic.f:.6g}) is not finite in Pa")
        rt = np.asarray(law.rtilde(law.density_from_pressure(p)), dtype=float)
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


def _finite(frame: SnapshotFrame) -> SnapshotFrame:
    """`frame` if it is finite: every node map multiplies its inputs, so a non-finite
    value never leaves the state again and the recorded frames show every blow-up."""
    bad = np.flatnonzero(~(np.isfinite(frame.plus) & np.isfinite(frame.minus)))
    if bad.size:  # the pipe of the first bad cell: the one after every span ending before it
        pid = frame.layout.pipes[sum(cells.stop <= bad[0] for cells in frame.layout.spans)]
        raise NumericalError(f"simulation blew up: pipe {pid} is not finite at t={frame.t}")
    return frame


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
    n = asm.n_steps
    snap_steps = _snapshot_steps(snapshot_times, asm.dt, n)
    times = np.empty(n + 1)
    l0 = np.empty(n + 1)
    l1 = np.empty(n) if record_l1 else None
    residuals: List[Tuple[float, NodeId, float]] = []
    snapshots: List[SnapshotFrame] = []
    net, dt, layout = asm.graph, asm.dt, asm.layout
    tracker = RegularityTracker(dt)
    prev_dp = prev_dm = None
    for k in range(n + 1):
        if k > 0:
            collect = residual_stride > 0 and (k - 1) % residual_stride == 0
            cs, traces = step_coupled(cs, net, collect_nodal=collect)
            for v, tr in (traces or {}).items():
                res = nodal_energy_residual(tr.delta_in, tr.delta_out, tr.mu, net.diameters_at(v))
                residuals.append(((k - 1) * dt, v, res))
        # Both systems packed once per step; every diagnostic reads these arrays.
        sp, sm = layout.pack(cs.s_state.grids)
        rp, rm = layout.pack(cs.r_state.grids)
        dp, dm = rp - sp, rm - sm
        times[k] = cs.t
        l0[k] = quadrature(dp, dm, layout)
        if not math.isfinite(l0[k]):
            raise NumericalError(f"simulation blew up: L0 is not finite at t={cs.t}")
        if l1 is not None and k > 0:
            l1[k - 1] = quadrature((dp - prev_dp) / dt, (dm - prev_dm) / dt, layout)
        prev_dp, prev_dm = dp, dm
        tracker.observe(sp - sm, rp - rm)
        if k in snap_steps:
            snapshots.append(SnapshotFrame(cs.t, layout, dp, dm))

    series = LyapunovSeries(times=times, l0=l0, l1=l1)
    return RunResult(
        series=series,
        residuals=residuals,
        m_tilde=tracker.m_tilde,
        b_tilde=tracker.b_tilde,
        snapshots=snapshots,
        graph=asm.graph,
    )


def run_truth(
    graph: NetworkGraph,
    scenario: ScenarioSpec,
    snapshot_times: Sequence[float] = (),
) -> Tuple[SnapshotFrame, List[SnapshotFrame]]:
    """Advance the truth system alone; returns the final frame and the snapshots."""
    asm = assemble(graph, scenario)
    state = asm.s_state
    snap_steps = _snapshot_steps(snapshot_times, asm.dt, asm.n_steps)
    snapshots: List[SnapshotFrame] = []
    for k in range(asm.n_steps + 1):
        if k > 0:
            state = step_system(state, asm.graph, asm.config.controls, asm.mu)
        if k in snap_steps:
            snapshots.append(_finite(SnapshotFrame.from_state(state, asm.layout)))
    return _finite(SnapshotFrame.from_state(state, asm.layout)), snapshots
