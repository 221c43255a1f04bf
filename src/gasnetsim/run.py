"""Scenario assembly and the recording run loops used by the CLI and the
experiment scripts."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .diagnostics import (
    LyapunovSeries,
    RegularityTracker,
    SnapshotFrame,
    lyapunov_l0,
    lyapunov_l1,
    nodal_energy_residual,
)
from .errors import NumericalError, ValidationError
from .fileio import ScenarioSpec, make_boundary_control
from .network import NetworkGraph, NodeId
from .observer import (
    CoupledState,
    ObserverConfig,
    SimState,
    difference_state,
    step_coupled,
    step_system,
)
from .physics import PressureLaw
from .solver import build_grids


@dataclass
class Assembled:
    """A scenario resolved against a concrete network."""

    graph: NetworkGraph  # with the scenario friction coefficient applied
    law: PressureLaw
    dt: float
    n_steps: int
    mu: Dict[NodeId, float]
    config: ObserverConfig
    s_state: SimState
    r_state: SimState


def default_dt(graph: NetworkGraph, c: float) -> float:
    """Time step giving the shortest pipe at least 8 cells."""
    return min(p.length for p in graph.pipes) / (8 * c)


def assemble(graph: NetworkGraph, scenario: ScenarioSpec) -> Assembled:
    """Resolve gains, controls, grids and initial states for one scenario."""
    law = scenario.make_law()
    c = law.sound_speed()
    eff_graph = graph.with_theta(scenario.theta)
    dt = scenario.dt if scenario.dt is not None else default_dt(eff_graph, c)
    n_steps = int(math.ceil(scenario.t_end / dt - 1e-12))
    mu = scenario.resolve_mu(eff_graph)
    controls = {
        v: make_boundary_control(scenario.schedule_for(v), eff_graph.incident_pipes(v)[0], law)
        for v in eff_graph.boundary_nodes
    }
    config = ObserverConfig(mu=mu, controls=controls)
    s_state = _initial_state(eff_graph, scenario, law, dt, "S")
    r_state = _initial_state(eff_graph, scenario, law, dt, "R")
    return Assembled(eff_graph, law, dt, n_steps, mu, config, s_state, r_state)


def _initial_state(
    graph: NetworkGraph, scenario: ScenarioSpec, law: PressureLaw, dt: float, which: str
) -> SimState:
    from .fileio import BAR

    grids = build_grids(graph, law.sound_speed(), dt, mode=scenario.mode)
    known = set(g.pipe for g in grids.values())
    table = scenario.ic_s if which == "S" else scenario.ic_r
    unknown = set(table) - known
    if unknown:
        raise ValidationError(f"initial condition for unknown pipe(s): {sorted(unknown)}")
    for pid, g in grids.items():
        ic = scenario.ic_for(which, pid)
        p_bar = ic.pressure_bar(g.cell_centers(), g.length)
        rho = law.density_from_pressure(np.asarray(p_bar) * BAR)
        rt = np.asarray(law.rtilde(rho), dtype=float)
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

    @property
    def sync_time(self) -> Optional[float]:
        return self.series.sync_time()


def _snapshot_steps(times: Sequence[float], dt: float, n: int) -> List[int]:
    """The steps nearest to `times`, each time first clamped to [0, n dt]."""
    return sorted({round(min(max(t, 0.0), n * dt) / dt) for t in times})


def _check_state_finite(state: SimState) -> None:
    """Every node map multiplies its inputs, so a non-finite value never
    leaves the state again: checking now and then catches every blow-up."""
    for pid, g in state.grids.items():
        if not (np.isfinite(g.r_plus).all() and np.isfinite(g.r_minus).all()):
            raise NumericalError(f"simulation blew up: pipe {pid} is not finite at t={state.t}")


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
    tracker = RegularityTracker()

    delta = difference_state(cs.r_state, cs.s_state)
    prev_delta = delta
    times[0] = cs.t
    l0[0] = lyapunov_l0(delta.grids, asm.graph)
    tracker.observe(cs.s_state, cs.r_state)
    if 0 in snap_steps:
        snapshots.append(SnapshotFrame.from_state(delta))

    for k in range(1, n + 1):
        collect = residual_stride > 0 and (k - 1) % residual_stride == 0
        cs, traces = step_coupled(cs, asm.graph, collect_nodal=collect)
        if traces is not None:
            t_prev = (k - 1) * asm.dt
            for v, tr in traces.items():
                res = nodal_energy_residual(
                    tr.delta_in, tr.delta_out, tr.mu, asm.graph.diameters_at(v)
                )
                residuals.append((t_prev, v, res))
        delta = difference_state(cs.r_state, cs.s_state)
        times[k] = cs.t
        l0[k] = lyapunov_l0(delta.grids, asm.graph)
        if not math.isfinite(l0[k]):
            raise NumericalError(f"simulation blew up: L0 is not finite at t={cs.t}")
        if l1 is not None:
            l1[k - 1] = lyapunov_l1(prev_delta.grids, delta.grids, asm.graph, asm.dt)
        prev_delta = delta
        tracker.observe(cs.s_state, cs.r_state)
        if k in snap_steps:
            snapshots.append(SnapshotFrame.from_state(delta))

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
) -> Tuple[SimState, List[SnapshotFrame]]:
    """Advance the truth system alone; returns final state and snapshots."""
    asm = assemble(graph, scenario)
    state = asm.s_state
    snap_steps = _snapshot_steps(snapshot_times, asm.dt, asm.n_steps)
    snapshots: List[SnapshotFrame] = []
    if 0 in snap_steps:
        snapshots.append(SnapshotFrame.from_state(state))
    for k in range(1, asm.n_steps + 1):
        state = step_system(state, asm.graph, asm.config.controls, asm.mu)
        if k in snap_steps:
            _check_state_finite(state)
            snapshots.append(SnapshotFrame.from_state(state))
    _check_state_finite(state)
    return state, snapshots
